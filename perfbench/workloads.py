"""The four workloads: seeded inputs, one op each, and the checks on every answer.

A workload object has
  window        number of leading ops whose verdicts and counts form the
                run's determinism digest (a run always does at least these);
  cycle         number of ops after which the op mix repeats: a run ends
                on a whole number of cycles, so that each run's quantiles
                and rate weigh the same mix;
  tail          percentile reported as the tail: the highest of the ladder
                with ten samples beyond it in a run of the gated length, fixed
                so that a faster program does not switch to a higher one;
  setup()       everything before the first timed op;
  prepare(i)    the input of op i, made outside the op's timer;
  op(inp)       one op; returns (verdict token, list of failures);
  cli_case(d)   input files for the CLI in directory d, the CLI arguments,
                and the keys its JSON output must have;
  tick          called between steps of a long set-up (the worker points it
                at its reference pace, see pace.py).

Ops call only public functions of graphmonoid, each inside a span named
after the layer it belongs to.  Counts come from return values.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

import corpus
from graphmonoid import kernels
from graphmonoid.desingularize import desingularize, phi, psi, psi_generator_map
from graphmonoid.engine import (
    EngineError,
    bfs_reach,
    certificate_to_json,
    completed_system,
    elements_up_to_degree,
    equal,
    normal_form,
    replay_chain,
)
from graphmonoid.graphs import graph_from_json, validate_graph
from graphmonoid.limits import (
    chain_from_json,
    check_continuity,
    induced_monoid_morphism,
    is_ck_morphism,
)
from graphmonoid.oracle import gamma_acyclic
from graphmonoid.presentation import (
    MonoidElement,
    element_from_json,
    element_to_json,
    generator_to_json,
    presentation_of,
)


class Workload:
    name = ""
    window = 1
    cycle = 1
    tail = 99

    def __init__(self, seed: int, tiny: bool, tracer):
        self.seed = seed
        self.tiny = tiny
        self.tr = tracer
        self.tick = lambda: None

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(map(str, (self.seed, self.name) + key)))

    # -- layer calls shared by the workloads --------------------------------

    def load_graph(self, doc: dict):
        tr = self.tr
        with tr.span("graphs.parse"):
            g = graph_from_json(doc)
        with tr.span("graphs.validate"):
            report = validate_graph(g)
        if not report.ok:
            raise ValueError("generated graph is invalid: " + "; ".join(report.violations))
        return g

    def present(self, g):
        with self.tr.span("presentation.build"):
            p = presentation_of(g)
        self.tr.count("presentation.generators", len(p.alphabet))
        self.tr.count("presentation.relations", len(p.relations))
        return p

    def complete(self, p):
        """Cold completion, through the library's cached entry point."""
        with self.tr.span("engine.complete"):
            rs = completed_system(p)
        tr = self.tr
        tr.count("engine.spairs", rs.spairs_processed)
        tr.count("engine.rules", rs.rule_count)
        steps = [len(pr) for pr in rs.proofs]
        tr.count("engine.proof_steps", sum(steps))
        tr.peak("engine.proof_steps_max", max(steps, default=0))
        return rs

    def decide(self, p, u, v, expected, serialize=True):
        """`equal` with a certificate, its replay and (optionally) its JSON."""
        tr = self.tr
        with tr.span("engine.equal"):
            res = equal(p, u, v)
        fails = []
        if expected is not None and res.equal != expected:
            fails.append(f"equal says {res.equal}, expected {expected} for {u} vs {v}")
        steps = len(res.chain or ())
        if res.equal:
            tr.count("engine.chain_steps", steps)
            tr.peak("engine.chain_steps_max", steps)
            try:
                with tr.span("engine.replay"):
                    end = replay_chain(p, u, res.chain)
            except EngineError as exc:
                fails.append(f"certificate does not replay: {exc}")
            else:
                if end != v:
                    fails.append(f"certificate replays to {end}, not to {v}")
        if serialize:
            with tr.span("engine.certificate_json"):
                text = json.dumps(certificate_to_json(p, u, res))
            tr.count("engine.certificate_json_bytes", len(text))
            doc = json.loads(text)
            want = "chain" if res.equal else "separated"
            if doc["kind"] != want or (res.equal and len(doc["steps"]) != steps):
                fails.append(f"certificate JSON of kind {doc['kind']!r} does not match the verdict")
        return res.equal, steps, fails

    # -- criterion 3's BFS cross-check, shared by bfs-crosscheck and warm-queries

    def partition(self, g, p, rs) -> dict:
        """Degree <= 4 elements of p with their nf_batch classes; checks expand on them."""
        tr = self.tr
        xs = elements_up_to_degree(len(p.alphabet), 4)
        with tr.span("kernels.nf_batch"):
            nf = kernels.nf_batch(xs, rs.lhs, rs.rhs)
        keys = [row.tobytes() for row in nf]
        index = p.index()
        rel = np.zeros((2, len(p.relations), len(index)), dtype=np.int64)
        for r, pair in enumerate(p.relations):
            for side, x in enumerate(pair):
                for gen, mult in x.terms:
                    rel[side, r, index[gen]] = mult
        with tr.span("kernels.expand"):
            stepped = kernels.expand_frontier(xs, rel[0], rel[1])
        # one relation step never leaves a congruence class
        with tr.span("kernels.nf_batch"):
            nf_stepped = kernels.nf_batch(stepped, rs.lhs, rs.rhs)
        if not {row.tobytes() for row in nf_stepped} <= set(keys):
            raise ValueError("a relation step left its nf_batch class")
        groups: dict[bytes, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        lookup = {tuple(int(c) for c in row): i for i, row in enumerate(xs)}
        return {"g": g, "p": p, "xs": xs, "keys": keys, "groups": groups, "lookup": lookup}

    @staticmethod
    def bfs_element(e: dict, k: int) -> MonoidElement:
        """Element #k of a partition, through the library's JSON reader."""
        alphabet = e["p"].alphabet
        doc = {
            "terms": [
                {"gen": generator_to_json(alphabet[c]), "mult": int(m)}
                for c, m in enumerate(e["xs"][k]) if m
            ]
        }
        return element_from_json(doc, e["g"])

    def bfs_check(self, e: dict, i: int, x: MonoidElement):
        """Depth-8 BFS from element #i against the nf_batch partition, as criterion 3."""
        tr = self.tr
        with tr.span("engine.bfs"):
            reach, saturated = bfs_reach(e["p"], x, 8)
        tr.count("engine.bfs_calls")
        tr.count("engine.bfs_reached", len(reach))
        tr.count("engine.bfs_saturated", int(saturated))
        keys, lookup, fails, verdicts = e["keys"], e["lookup"], [], 0
        for vec in sorted(reach):
            other = lookup.get(vec)
            if other is None:
                continue
            verdicts += 1
            if keys[other] != keys[i]:
                fails.append(f"BFS joins elements #{i} and #{other}, engine separates them")
        if saturated:
            for other in e["groups"][keys[i]]:
                verdicts += 1
                if tuple(int(c) for c in e["xs"][other]) not in reach:
                    fails.append(
                        f"engine joins elements #{i} and #{other}, "
                        f"BFS closed the class without reaching #{other}"
                    )
        return f"bfs:{i}:{len(reach)}:{int(saturated)}:{verdicts}", fails


def _write(directory: str, name: str, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def random_element(rng: random.Random, alphabet, max_degree: int, min_degree: int = 0):
    counts: dict = {}
    for _ in range(rng.randint(min_degree, max_degree)):
        gen = alphabet[rng.randrange(len(alphabet))]
        counts[gen] = counts.get(gen, 0) + 1
    return MonoidElement.from_counts(counts)


def parse_element(x: MonoidElement, g) -> MonoidElement:
    """Send a harness-made element through the library's JSON reader."""
    return element_from_json(json.loads(json.dumps(element_to_json(x))), g)


# -- emitter-cold --------------------------------------------------------------

class EmitterCold(Workload):
    """Op: parse, present, complete and decide on a graph the process has not seen."""

    name = "emitter-cold"
    # k of successive ops: one each of k = 2, 3, 4 and six of k = 5.  Cost
    # grows about sixfold per step of k, and k = 5 graphs differ twofold in
    # cost among themselves, so both the median and the tail fall inside the
    # k = 5 ops, whose costs spread smoothly; a quantile inside a stratum of
    # near-equal ops jumps with the share of the run the machine ran slow.
    PATTERN = (2, 5, 5, 3, 5, 5, 4, 5, 5)
    window = 9
    cycle = 9
    tail = 90

    def setup(self):
        if self.tiny:
            self.PATTERN = (2, 3)
            self.window = 4
            self.cycle = 2

    def prepare(self, i: int):
        k = self.PATTERN[i % len(self.PATTERN)]
        doc, lhs, rhs = corpus.cold_emitter_case(self.rng(i), k, f"g{i}.")
        return k, json.dumps(doc), json.dumps(lhs), json.dumps(rhs)

    def op(self, inp):
        k, doc, lhs, rhs = inp
        g = self.load_graph(json.loads(doc))
        p = self.present(g)
        rs = self.complete(p)
        u = element_from_json(json.loads(lhs), g)
        v = element_from_json(json.loads(rhs), g)
        verdict, steps, fails = self.decide(p, u, v, expected=True)
        return f"{k}:{rs.spairs_processed}:{int(verdict)}:{steps}", fails

    def cli_case(self, directory):
        k, doc, lhs, rhs = self.prepare(3)  # k = 3: the CLI time is mostly start-up
        args = ["equal"]
        for flag, text in (("graph", doc), ("lhs", lhs), ("rhs", rhs)):
            args += [f"--{flag}", _write(directory, f"{flag}.json", json.loads(text))]
        return args, {"equal": True}


# -- warm-queries --------------------------------------------------------------

class WarmQueries(Workload):
    """Op: one query against a corpus completed in set-up, graph drawn per query.

    Queries come in rounds, shuffled within each round.  Every round asks
    each graph a verdict-only query on a random pair, a verdict-only query on
    a pair made equal by hand (u + lhs_r against u + rhs_r), and a
    certificate query on the two sides of a relation; each graph with at most
    four generators also gets one BFS cross-check (criterion 3's comparison,
    as in bfs-crosscheck), and every eighth round adds one multiplicity
    query.  Random pairs get verdict-only queries: they are
    rarely equal, but an equal one can carry a chain of 10^4 steps or more,
    and a few such certificates would decide what a run costs.  Each graph's
    pools are walked in order, round by round, so what a run costs depends on
    its pools, not on which entries a short run happens to draw.
    """

    name = "warm-queries"
    window = 64
    RANDOM_PAIRS = 16
    POOL = 64  # hand-made pairs per graph, about what one run visits
    N_DAGS = 8
    MULTIPLICITIES = (1000, 2500, 5000, 10000)
    BFS_MAX_GENERATORS = 4

    def setup(self):
        docs = corpus.mixed_corpus()
        docs += [corpus.emitter_mixed(k) for k in (1, 2, 4, 5)]
        docs += [corpus.emitter_to_sink(k) for k in (4, 5)]
        rng = self.rng("corpus")
        n_dags = self.N_DAGS
        if self.tiny:
            docs, n_dags = docs[:9], 2
        dags = [corpus.random_dag(rng, 6, 9, prefix=f"d{j}.") for j in range(n_dags)]
        self.graphs = []
        for j, doc in enumerate(docs + dags):
            self.tick()
            g = self.load_graph(doc)
            p = self.present(g)
            rs = self.complete(p)
            e = self._pools(rng, g, p, rs, is_dag=j >= len(docs))
            if len(p.alphabet) <= self.BFS_MAX_GENERATORS:
                e["bfs"] = self.partition(g, p, rs)
                n = e["bfs"]["xs"].shape[0]
                e["bfs_order"] = rng.sample(range(n), n)
            self.graphs.append(e)
        # multiplicity queries need rule proofs short enough that a chain of
        # m copies stays in the tens of milliseconds
        self.mult_graphs = [j for j, e in enumerate(self.graphs) if e["short_proofs"]]
        self.queue: list = []
        self.round = 0

    def _pools(self, rng, g, p, rs, is_dag):
        gens = tuple(x for x in p.alphabet if not x.is_cofinite) if is_dag else p.alphabet
        rand = []
        for _ in range(self.RANDOM_PAIRS):
            u = parse_element(random_element(rng, gens, 4, 1), g)
            v = parse_element(random_element(rng, gens, 4, 1), g)
            # DAG verdicts are checked against path counts in the op itself;
            # elsewhere the certificate path (equal + replay) sets the answer
            expected = None if is_dag else self.decide(p, u, v, None, serialize=False)[0]
            rand.append((u, v, expected))
        steps, chains = [], []
        n_rel = len(p.relations)
        for _ in range(self.POOL if n_rel else 0):
            u = random_element(rng, gens, 2)
            lhs, rhs = p.relations[rng.randrange(n_rel)]
            steps.append((parse_element(u + lhs, g), parse_element(u + rhs, g), True))
        # chain certificates: relations evenly spaced from a seeded offset, u = 0.
        # Chain length is set by the relation, and an even spread over R1, R2
        # and R3 keeps a pool's mean chain close to the presentation's
        offset = rng.randrange(n_rel) if n_rel else 0
        for t in range(self.POOL if n_rel else 0):
            lhs, rhs = p.relations[(offset + t * n_rel // self.POOL) % n_rel]
            chains.append((parse_element(lhs, g), parse_element(rhs, g), True))
        # a run visits only part of the pool, and chain length trends with
        # relation index; shuffled, the part a run visits is spread evenly
        rng.shuffle(chains)
        short = max((len(pr) for pr in rs.proofs), default=0) <= 4 and len(p.alphabet) <= 6
        return {"g": g, "p": p, "dag": is_dag, "rand": rand,
                "steps": steps or rand, "chains": chains or rand, "short_proofs": short}

    def _next_round(self) -> list:
        r = self.round
        self.round += 1
        queries = []
        for j in range(len(self.graphs)):
            queries.append(("nf", j, "rand", r, 1))
            queries.append(("nf", j, "steps", r, 1))
            queries.append(("cert", j, "chains", r, 1))
            if "bfs" in self.graphs[j]:
                queries.append(("bfs", j, "bfs_order", r, 1))
        if r % 8 == 0 and self.mult_graphs:
            k = r // 8
            j = self.mult_graphs[k % len(self.mult_graphs)]
            queries.append(("mult", j, "chains", k, self.MULTIPLICITIES[k % len(self.MULTIPLICITIES)]))
        self.rng("round", r).shuffle(queries)
        return queries

    def prepare(self, i: int):
        if not self.queue:
            self.queue = self._next_round()[::-1]
        kind, j, pool, pick, m = self.queue.pop()
        e = self.graphs[j]
        if kind == "bfs":
            k = e[pool][pick % len(e[pool])]
            return kind, e, k, self.bfs_element(e["bfs"], k), None
        u, v, expected = e[pool][pick % len(e[pool])]
        return kind, e, u * m, v * m, expected

    def op(self, inp):
        kind, e, u, v, expected = inp
        tr, p = self.tr, e["p"]
        if kind == "bfs":
            return self.bfs_check(e["bfs"], u, v)
        if kind == "nf":
            with tr.span("engine.cache_lookup"):
                rs = completed_system(p)
            with tr.span("engine.normal_form"):
                nu = normal_form(rs, u)
            with tr.span("engine.normal_form"):
                nv = normal_form(rs, v)
            verdict, steps, fails = nu == nv, 0, []
            if expected is not None and verdict != expected:
                fails.append(f"normal forms say {verdict}, expected {expected} for {u} vs {v}")
        else:
            verdict, steps, fails = self.decide(p, u, v, expected, serialize=kind == "cert")
        if e["dag"]:
            with tr.span("oracle.path_count"):
                by_counts = gamma_acyclic(e["g"], u) == gamma_acyclic(e["g"], v)
            if by_counts != verdict:
                fails.append(f"engine says {verdict}, path counts say {by_counts} for {u} vs {v}")
        return f"{kind}:{int(verdict)}:{steps}", fails

    def cli_case(self, directory):
        u, v, _ = self.graphs[8]["steps"][0]  # emitter_mixed(3) of the mixed corpus
        args = ["equal", "--graph", _write(directory, "graph.json", corpus.emitter_mixed(3))]
        args += ["--lhs", _write(directory, "lhs.json", element_to_json(u))]
        args += ["--rhs", _write(directory, "rhs.json", element_to_json(v))]
        return args, {"equal": True}


# -- bfs-crosscheck ------------------------------------------------------------

class BfsCrosscheck(Workload):
    """Op: depth-8 BFS from one element, compared with the nf_batch partition.

    The comparison is acceptance criterion 3's, element by element.  The
    elements are a seeded sample of the degree <= 4 elements of its family:
    rounds visit every graph once, in shuffled order, each time taking the
    graph's next element in its own shuffled order.  Graphs differ in BFS
    cost far more than elements of one graph do, so every run gives each
    graph the same share.
    """

    name = "bfs-crosscheck"
    window = 200

    def setup(self):
        docs = corpus.small_graph_family()
        if self.tiny:
            docs = docs[::20]
            self.window = 20
        self.docs = docs
        self.graphs = []
        for doc in docs:
            self.tick()
            g = self.load_graph(doc)
            p = self.present(g)
            rs = self.complete(p)
            self.graphs.append(self.partition(g, p, rs))
        self.cycle = len(self.graphs)  # a round visits every graph once
        rng = self.rng("order")
        self.orders = [rng.sample(range(e["xs"].shape[0]), e["xs"].shape[0]) for e in self.graphs]
        self.queue: list = []
        self.round = 0

    def prepare(self, i: int):
        if not self.queue:
            r = self.round
            self.round += 1
            graphs = list(range(len(self.graphs)))
            self.rng("round", r).shuffle(graphs)
            self.queue = [(j, self.orders[j][r % len(self.orders[j])]) for j in reversed(graphs)]
        j, k = self.queue.pop()
        return j, k, self.bfs_element(self.graphs[j], k)

    def op(self, inp):
        j, k, x = inp
        return self.bfs_check(self.graphs[j], k, x)

    def cli_case(self, directory):
        j = len(self.graphs) - 1
        e = self.graphs[j]
        x = self.bfs_element(e, e["xs"].shape[0] - 1)
        expected = element_to_json(normal_form(completed_system(e["p"]), x))
        args = ["normal-form", "--graph", _write(directory, "graph.json", self.docs[j])]
        args += ["--element", _write(directory, "element.json", element_to_json(x))]
        return args, {"normal_form": expected}


# -- tails-limits --------------------------------------------------------------

class TailsLimits(Workload):
    """Op: one (graph, level) check of the tailed approximation, or one chain check.

    A (graph, level) check completes the source and the tailed presentation
    cold (every op renames its graph), runs phi/psi round trips on generators
    and seeded elements, and checks that relations are preserved both ways.
    The op sequence is fixed; the seed draws the sampled elements.
    """

    name = "tails-limits"
    tail = 90
    SAMPLES = 24

    def setup(self):
        docs = corpus.mixed_corpus()
        chains = corpus.chain_corpus()
        if self.tiny:
            docs, chains = docs[:8], chains[1:2]
        entries = []
        for j, doc in enumerate(docs):
            level = corpus.graph_level(doc)
            entries.append(("graph", j, level))
            # one level further only for graphs with at most one emitter: the
            # two-emitter graphs of the corpus take seconds there
            if len(doc["infinite_emitters"]) <= 1:
                entries.append(("graph", j, level + 1))
        # spread the chain checks through the sequence
        step = len(entries) // len(chains) + 1
        for c in reversed(range(len(chains))):
            entries.insert(min(len(entries), (c + 1) * step), ("chain", c, 0))
        self.entries = entries
        self.window = self.cycle = len(entries)  # one pass over the sequence

    def prepare(self, i: int):
        kind, j, level = self.entries[i % len(self.entries)]
        prefix = f"t{i}."
        if kind == "graph":
            return kind, j, level, corpus.mixed_corpus(prefix)[j], self.rng(i)
        return kind, j, level, corpus.chain_corpus(prefix)[j][1], None

    def op(self, inp):
        kind, j, level, doc, rng = inp
        if kind == "chain":
            return self._chain(j, doc)
        tr = self.tr
        g = self.load_graph(doc)
        p = self.present(g)
        self.complete(p)
        with tr.span("desingularize.build"):
            d = desingularize(g, level)
        tr.count("desingularize.tailed_vertices", len(d.graph.vertices))
        pf = self.present(d.graph)
        rsf = self.complete(pf)
        fails = []

        def check(pres, x, y, what):
            with tr.span("engine.equal"):
                ok = equal(pres, x, y).equal
            if not ok:
                fails.append(f"graph {j} level {level}: {what}")

        xs = [MonoidElement.single(gen) for gen in p.alphabet]
        xs += [random_element(rng, p.alphabet, 4, 1) for _ in range(self.SAMPLES)]
        for x in xs:
            with tr.span("desingularize.phi"):
                y = phi(d, x)
            with tr.span("desingularize.psi"):
                back = psi(d, y)
            check(p, back, x, f"psi(phi(x)) != x for x = {x}")
        with tr.span("desingularize.psi"):
            defined = set(psi_generator_map(d))
        rev = tuple(sorted((gen for gen in defined if gen.vertex not in d.boundary), key=lambda x: x.sort_key()))
        ys = [MonoidElement.single(gen) for gen in rev]
        ys += [random_element(rng, rev, 4, 1) for _ in range(self.SAMPLES)]
        for y in ys:
            with tr.span("desingularize.psi"):
                x = psi(d, y)
            with tr.span("desingularize.phi"):
                forth = phi(d, x)
            check(pf, forth, y, f"phi(psi(y)) != y for y = {y}")
        for r, (lhs, rhs) in enumerate(p.relations):
            with tr.span("desingularize.phi"):
                a, b = phi(d, lhs), phi(d, rhs)
            check(pf, a, b, f"relation {r} broken under phi")
        checks = len(xs) + len(ys) + len(p.relations)
        for r, (lhs, rhs) in enumerate(pf.relations):
            if d.mentions_boundary(lhs) or d.mentions_boundary(rhs):
                continue
            if not set(lhs.support()) | set(rhs.support()) <= defined:
                continue
            with tr.span("desingularize.psi"):
                a, b = psi(d, lhs), psi(d, rhs)
            check(p, a, b, f"tailed relation {r} broken under psi")
            checks += 1
        return f"graph:{j}:{level}:{rsf.spairs_processed}:{checks}", fails

    def _chain(self, c: int, system: dict):
        tr = self.tr
        with tr.span("graphs.parse"):
            chain = chain_from_json(system)
        fails = []
        for step in chain.steps:
            with tr.span("limits.ck_check"):
                report = is_ck_morphism(step)
            if not report.ok:
                fails.append(f"chain {c}: step is not CK: {'; '.join(report.violations)}")
                continue
            with tr.span("limits.induced_map"):
                images = induced_monoid_morphism(step)
            if any(len(img.terms) != 1 or img.terms[0][1] != 1 for img in images.values()):
                fails.append(f"chain {c}: induced map sends a generator to a non-generator")
        with tr.span("limits.continuity"):
            report = check_continuity(chain, degree=3)
        if not report.ok:
            fails += [f"chain {c}: {m}" for m in report.mismatches]
            fails += [f"chain {c}: uncovered {u}" for u in report.uncovered_generators]
        sizes = ",".join(map(str, report.sample_sizes))
        return f"chain:{c}:{sizes}:{','.join(map(str, report.merged_classes))}", fails

    def cli_case(self, directory):
        name, system = corpus.chain_corpus()[2]
        args = ["continuity-check", "--system", _write(directory, "system.json", system), "--degree", "3"]
        return args, {"ok": True}


WORKLOADS = {w.name: w for w in (EmitterCold, WarmQueries, BfsCrosscheck, TailsLimits)}
