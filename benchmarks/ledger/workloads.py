"""The ledger's workloads: seeded inputs and the load each one drives.

Every input — the graph, the event layer, request shapes, delta batches,
per-request seeds — is derived from the ``--seed`` before any server boots,
so the timed loops only send and receive (generating batches inside the
timed loop once inflated client-measured commit latency from ~2 ms to
~140 ms by holding the GIL against the load generator's other thread).
``churn`` and ``churn-pooled`` share one input family, so a seed gives both
the same graph and the same batches.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.synthetic_dblp import make_dblp_like
from repro.graph.io import read_edge_list, read_event_file, write_edge_list, write_event_file
from repro.service import CorrelationClient, client as client_module
from repro.service.protocol import ServiceError

from benchmarks.ledger.server import ServerProcess

#: The dataset every workload runs on (20,020 nodes), and the small one the
#: smoke test uses.
FULL_GRAPH = {"num_communities": 200, "community_size": 77}
SMALL_GRAPH = {"num_communities": 24, "community_size": 40}

#: hot-read: request shapes, their Zipf exponent, and client threads.
SHAPES = 40
ZIPF_S = 1.1
HOT_CLIENTS = 2
#: churn: open-loop pace, batch sizes, and the staged store's history.
STEPS_PER_SECOND = 4.0
REWIRES_PER_BATCH = 10
TOGGLES_PER_BATCH = 5
STAGED_CHECKPOINT_AT = 150
STAGED_BATCHES = 200
#: topk-scan: k and the progressive schedule sent as config overrides.
TOPK_K = 3
TOPK_CONFIG = {"topk_initial_sample_size": 512, "topk_growth_factor": 4.0}


@dataclass(frozen=True)
class Spec:
    """One workload: its dataset and its server flags."""

    name: str
    family: str
    dataset: Dict[str, Any]
    level: int
    sample_size: int
    workers: int
    static: bool

    def flags(self, staging: bool = False) -> List[str]:
        flags = ["--level", str(self.level), "--sample-size", str(self.sample_size),
                 "--workers", str(self.workers)]
        if self.static:
            return ["--static", *flags]
        if staging:
            # Staging checkpoints only on demand, so every staged store holds
            # exactly one checkpoint at batch 150.
            return flags
        # One background checkpoint per 5 s of load: the same share of the
        # timed window as a 15 s interval over a 60 s run.
        return [*flags, "--checkpoint-interval", "5"]


_CHURN_DATASET = {"num_positive_pairs": 5, "num_negative_pairs": 5,
                  "num_background_keywords": 0}

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
SPECS: Dict[str, Spec] = {
    "hot-read": Spec(
        "hot-read", "hot-read",
        {"num_positive_pairs": 5, "num_negative_pairs": 5, "num_background_keywords": 20},
        level=1, sample_size=900, workers=1, static=True,
    ),
    "churn": Spec("churn", "churn", _CHURN_DATASET,
                  level=2, sample_size=8000, workers=1, static=False),
    "churn-pooled": Spec("churn-pooled", "churn", _CHURN_DATASET,
                         level=2, sample_size=8000, workers=2, static=False),
    "topk-scan": Spec(
        "topk-scan", "topk-scan",
        {"num_positive_pairs": 3, "num_negative_pairs": 0, "num_background_keywords": 24,
         "cooccurrence_fraction": 0.7, "keyword_coverage": 0.9, "communities_per_pair": 6},
        level=1, sample_size=8000, workers=1, static=True,
    ),
}
WORKLOADS: Tuple[str, ...] = tuple(SPECS)
_FAMILIES = ("hot-read", "churn", "topk-scan")


@dataclass
class Inputs:
    """Everything one workload run sends, generated from the seed."""

    spec: Spec
    workdir: str
    server_seed: int
    edges_path: str
    events_path: str
    shapes: List[List[List[str]]] = field(default_factory=list)
    sequences: List[List[int]] = field(default_factory=list)
    keep: List[set] = field(default_factory=list)
    pairs: List[List[str]] = field(default_factory=list)
    staged: List[List[Dict[str, Any]]] = field(default_factory=list)
    batches: List[List[Dict[str, Any]]] = field(default_factory=list)
    store_dir: Optional[str] = None
    seeds: List[Tuple[int, int]] = field(default_factory=list)
    _boots: int = 0

    @property
    def config(self) -> Dict[str, Any]:
        """The server's :class:`~repro.core.config.TescConfig` fields."""
        return {"vicinity_level": self.spec.level, "sample_size": self.spec.sample_size,
                "random_state": self.server_seed}

    def serve_args(self) -> List[str]:
        """``tesc serve`` arguments for one boot; store workloads boot from
        a fresh copy of the staged store every time."""
        args = ["--edges", self.edges_path, "--events", self.events_path,
                *self.spec.flags(), "--seed", str(self.server_seed)]
        if self.store_dir is None:
            return args
        self._boots += 1
        copy = os.path.join(self.workdir, f"store-{self._boots}")
        shutil.copytree(self.store_dir, copy)
        return [*args, "--store", copy]


def prepare(name: str, seed: int, workdir: str, seconds: float,
            small: bool = False) -> Inputs:
    """Write the workload's graph files and generate every request.

    ``seconds`` is the length of one timed leg; it sizes the pre-generated
    request streams.  Store workloads are also staged here: a real server
    with the workload's flags commits 150 batches, cuts a checkpoint and
    commits 50 more, leaving a checkpoint plus a 50-batch WAL tail.
    """
    spec = SPECS[name]
    rng = np.random.default_rng([seed, _FAMILIES.index(spec.family)])
    dataset_seed, server_seed = (int(x) for x in rng.integers(0, 2**31 - 1, size=2))
    dataset = make_dblp_like(**(SMALL_GRAPH if small else FULL_GRAPH), **spec.dataset,
                             random_state=dataset_seed)
    edges_path = os.path.join(workdir, "graph.txt")
    events_path = os.path.join(workdir, "events.txt")
    write_edge_list(dataset.graph, edges_path)
    graph, labels = read_edge_list(edges_path)
    # A node the generator left without edges is absent from the edge list,
    # so its event occurrences are dropped (the server would reject them).
    present = {int(label) for label in labels}
    write_event_file(
        {event: [int(node) for node in dataset.attributed.event_nodes(event)
                 if int(node) in present]
         for event in dataset.attributed.event_names()},
        events_path,
    )
    inputs = Inputs(spec, workdir, server_seed, edges_path, events_path)
    events = read_event_file(events_path, {label: i for i, label in enumerate(labels)})
    if spec.family == "hot-read":
        _hot_read_inputs(inputs, rng, sorted(events), seconds)
    elif spec.family == "churn":
        _churn_inputs(inputs, rng, graph, events, dataset, seconds)
    else:
        inputs.seeds = [(int(a), int(b)) for a, b in
                        rng.integers(0, 2**31 - 1, size=(int(seconds * 1000) + 10, 2))]
    return inputs


def _hot_read_inputs(inputs: Inputs, rng: np.random.Generator, names: Sequence[str],
                     seconds: float) -> None:
    all_pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]
    # A shape's size (1-3 pairs) follows its popularity rank, not the seed,
    # so every seed sends the same mix of response sizes.
    for rank in range(SHAPES):
        chosen = rng.choice(len(all_pairs), size=rank % 3 + 1, replace=False)
        inputs.shapes.append([all_pairs[int(i)] for i in chosen])
    weights = 1.0 / np.arange(1, SHAPES + 1) ** ZIPF_S
    length = int(seconds * 4000) + 1000
    for _ in range(HOT_CLIENTS):
        inputs.sequences.append(rng.choice(SHAPES, size=length, p=weights / weights.sum()).tolist())
        # Timed answers kept for verification: 10 seeded positions a client.
        inputs.keep.append(set(rng.choice(400, size=10, replace=False).tolist()))


class _ChurnModel:
    """A local copy of the graph that makes every generated delta effective
    and keeps the churn stationary.

    A rewire drops an existing edge and closes a triangle instead: one
    endpoint links to a neighbour of one of its other neighbours, as
    co-authors of co-authors do.  An event toggle either detaches a carrier
    or spreads to a non-carrier neighbour of one.  Uniformly random targets
    would add long-range shortcuts and scatter occurrences over the whole
    graph, so h-hop vicinities and the monitored population — and with them
    the cost of every rank — would keep growing through the run.  No delta
    in a batch touches what an earlier one touched, so no batch nets out to
    a no-op (which would not advance the epoch and would turn the next rank
    into a cache hit).
    """

    def __init__(self, graph, events: Dict[str, List[int]], monitored: Sequence[str],
                 rng: np.random.Generator) -> None:
        self.adjacency = [set(graph.neighbors(node)) for node in range(graph.num_nodes)]
        self.edges = [(min(u, v), max(u, v)) for u, v in graph.edges()]
        self.members = {event: set(events[event]) for event in monitored}
        self.monitored = list(monitored)
        self.rng = rng

    def _pick(self, items) -> int:
        ordered = sorted(items)
        return ordered[int(self.rng.integers(len(ordered)))]

    def rewire(self, count: int) -> List[Dict[str, Any]]:
        rng, adjacency, records, touched = self.rng, self.adjacency, [], set()
        while len(records) < 2 * count:
            index = int(rng.integers(len(self.edges)))
            u, v = self.edges[index]
            keep, drop = (u, v) if rng.random() < 0.5 else (v, u)
            others = adjacency[keep] - {drop}
            if (u, v) in touched or not others:
                continue
            target = self._pick(adjacency[self._pick(others)])
            added = (min(keep, target), max(keep, target))
            if target == keep or target in adjacency[keep] or added in touched:
                continue
            adjacency[u].discard(v)
            adjacency[v].discard(u)
            adjacency[keep].add(target)
            adjacency[target].add(keep)
            self.edges[index] = added
            touched.update(((u, v), added))
            records.append({"op": "edge_remove", "u": u, "v": v})
            records.append({"op": "edge_add", "u": added[0], "v": added[1]})
        return records

    def toggle(self, count: int) -> List[Dict[str, Any]]:
        rng, records, touched = self.rng, [], set()
        while len(records) < count:
            event = self.monitored[int(rng.integers(len(self.monitored)))]
            members = self.members[event]
            carrier = self._pick(members)
            if rng.random() < 0.5 and len(members) > 2:
                op, node = "event_detach", carrier
            else:
                candidates = self.adjacency[carrier] - members
                if not candidates:
                    continue
                op, node = "event_attach", self._pick(candidates)
            if (event, node) in touched:
                continue
            touched.add((event, node))
            if op == "event_detach":
                members.discard(node)
            else:
                members.add(node)
            records.append({"op": op, "event": event, "node": node})
        return records


def _churn_inputs(inputs: Inputs, rng: np.random.Generator, graph,
                  events: Dict[str, List[int]], dataset, seconds: float) -> None:
    pairs = list(dataset.positive_pairs) + list(dataset.negative_pairs)
    inputs.pairs = [list(pair) for pair in pairs]
    monitored = sorted({event for pair in pairs for event in pair})
    model = _ChurnModel(graph, events, monitored, rng)
    steps = math.ceil(seconds * STEPS_PER_SECOND)
    batches = [model.rewire(REWIRES_PER_BATCH) if index % 2 == 0
               else model.toggle(TOGGLES_PER_BATCH)
               for index in range(STAGED_BATCHES + steps)]
    inputs.staged, inputs.batches = batches[:STAGED_BATCHES], batches[STAGED_BATCHES:]
    inputs.store_dir = os.path.join(inputs.workdir, "store-staged")
    args = ["--edges", inputs.edges_path, "--events", inputs.events_path,
            *inputs.spec.flags(staging=True), "--seed", str(inputs.server_seed),
            "--store", inputs.store_dir]
    server = ServerProcess.boot(args, os.path.join(inputs.workdir, "staging.log"))
    try:
        for batch in inputs.staged[:STAGED_CHECKPOINT_AT]:
            server.client.stream(batch)
        server.client.checkpoint(force=True)
        for batch in inputs.staged[STAGED_CHECKPOINT_AT:]:
            server.client.stream(batch)
    finally:
        server.stop()


# -- the timed load ------------------------------------------------------------


@dataclass
class Leg:
    """What one server's timed window measured (latencies in seconds)."""

    lead: List[float] = field(default_factory=list)
    rank: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: Timed ranks the server answered from its pair cache (hot-read) or
    #: recomputed (the other workloads) contrary to the workload's design.
    unexpected_cache_outcome: int = 0
    #: (key, answer) pairs kept for verification.
    answers: List[Tuple[Any, Any]] = field(default_factory=list)
    #: Traced legs: (rid, client-measured seconds) per timed request.
    rids: List[Tuple[str, float]] = field(default_factory=list)
    boot_seconds: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    counters_before: Dict[str, float] = field(default_factory=dict)
    counters_after: Dict[str, float] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class _RidCapture:
    """Records the ``rid`` of each request this process encodes, per thread.

    Installed around a traced leg's timed window (it wraps the client's
    ``encode`` from outside) so client latencies can be joined with the
    server's spans; :attr:`value` is ``None`` when it is not installed.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._original = None

    @property
    def value(self) -> Optional[str]:
        return getattr(self._local, "rid", None)

    def __enter__(self) -> "_RidCapture":
        original = self._original = client_module.encode
        local = self._local

        def encode(message):
            local.rid = message.get("rid")
            return original(message)

        client_module.encode = encode
        return self

    def __exit__(self, *_exc) -> None:
        client_module.encode = self._original


RID = _RidCapture()


def warm(server: ServerProcess, inputs: Inputs, leg: Leg) -> None:
    """Untimed warm-up: fill the caches the workload is meant to hit."""
    client = server.client
    family = inputs.spec.family
    if family == "hot-read":
        for index, shape in enumerate(inputs.shapes):
            leg.answers.append((index, client.rank(shape)["pairs"]))
    elif family == "churn":
        client.rank(inputs.pairs)
    else:
        topk_seed, rank_seed = inputs.seeds[-1]
        client.topk(TOPK_K, "all", config={"random_state": topk_seed, **TOPK_CONFIG})
        client.rank("all", config={"random_state": rank_seed})


def drive(server: ServerProcess, inputs: Inputs, seconds: float, leg: Leg,
          traced: bool) -> None:
    """The timed window of the workload against ``server``."""
    family = inputs.spec.family
    if family == "hot-read":
        _drive_hot_read(server, inputs, seconds, leg, traced)
    elif family == "churn":
        _drive_churn(server.client, inputs, leg, traced)
    else:
        _drive_topk_scan(server.client, inputs, seconds, leg, traced)


def _drive_hot_read(server: ServerProcess, inputs: Inputs, seconds: float, leg: Leg,
                    traced: bool) -> None:
    """Closed loop: two clients, each on its own connection and thread
    (the calling thread is the second one), drawing Zipf-distributed shapes."""
    second = CorrelationClient("127.0.0.1", server.port)
    clients = [server.client, second]
    parts = [Leg() for _ in clients]
    windows = [(0.0, 0.0)] * len(clients)
    barrier = threading.Barrier(len(clients))

    def loop(slot: int) -> None:
        client, part = clients[slot], parts[slot]
        sequence, keep, shapes = inputs.sequences[slot], inputs.keep[slot], inputs.shapes
        latencies, rids = part.rank, part.rids
        barrier.wait()
        started = time.perf_counter()
        deadline = started + seconds
        count = 0
        now = started
        while now < deadline:
            shape = sequence[count % len(sequence)]
            try:
                response = client.rank(shapes[shape])
            except ServiceError:
                part.failed += 1
            else:
                done = time.perf_counter()
                latencies.append(done - now)
                if traced:
                    rids.append((RID.value, done - now))
                if response["computed_pairs"]:
                    part.unexpected_cache_outcome += 1
                if count in keep:
                    part.answers.append((shape, response["pairs"]))
            count += 1
            now = time.perf_counter()
        part.attempted = count
        windows[slot] = (started, now)

    helper = threading.Thread(target=loop, args=(0,), name="ledger-client-0")
    helper.start()
    try:
        loop(1)
    finally:
        helper.join()
        second.close()
    for part in parts:
        leg.rank.extend(part.rank)
        leg.rids.extend(part.rids)
        leg.answers.extend(part.answers)
        leg.attempted += part.attempted
        leg.failed += part.failed
        leg.unexpected_cache_outcome += part.unexpected_cache_outcome
    leg.lead = leg.rank
    leg.elapsed = max(end for _, end in windows) - min(start for start, _ in windows)


def _drive_churn(client: CorrelationClient, inputs: Inputs, leg: Leg,
                 traced: bool) -> None:
    """Open loop at a fixed pace: commit one batch, then rank the monitored
    pairs at the commit's epoch.  Commit latency counts from the step's due
    time, so a stalled step also charges the wait it imposed."""
    pairs = inputs.pairs
    started = time.perf_counter() + 0.01
    for index, batch in enumerate(inputs.batches):
        due = started + index / STEPS_PER_SECOND
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        leg.lateness.append(max(sent - due, 0.0))
        leg.attempted += 1
        try:
            commit = client.stream(batch)
        except ServiceError:
            leg.failed += 1
            continue
        committed = time.perf_counter()
        leg.lead.append(committed - due)
        if traced:
            leg.rids.append((RID.value, committed - sent))
        leg.attempted += 1
        try:
            ranked = client.rank(pairs, at_epoch=commit["epoch"])
        except ServiceError:
            leg.failed += 1
            continue
        done = time.perf_counter()
        if traced:
            leg.rids.append((RID.value, done - committed))
        if ranked["computed_pairs"]:
            leg.rank.append(done - committed)
        else:
            leg.unexpected_cache_outcome += 1
        leg.answers.append((index, (commit["epoch"], ranked["epoch"], ranked["pairs"])))
    leg.elapsed = time.perf_counter() - started


def _drive_topk_scan(client: CorrelationClient, inputs: Inputs, seconds: float,
                     leg: Leg, traced: bool) -> None:
    """Closed loop, one client: ``topk(3, "all")`` then ``rank("all")``,
    each with a fresh seed so every request computes."""
    started = time.perf_counter()
    deadline = started + seconds
    now = started
    step = 0
    while now < deadline:
        topk_seed, rank_seed = inputs.seeds[step % len(inputs.seeds)]
        requests = (
            ("topk", leg.lead, lambda: client.topk(
                TOPK_K, "all", config={"random_state": topk_seed, **TOPK_CONFIG})),
            ("rank", leg.rank, lambda: client.rank(
                "all", config={"random_state": rank_seed})["pairs"]),
        )
        for kind, latencies, send in requests:
            leg.attempted += 1
            try:
                answer = send()
            except ServiceError:
                leg.failed += 1
                answer = None
            done = time.perf_counter()
            if answer is not None:
                latencies.append(done - now)
                if traced:
                    leg.rids.append((RID.value, done - now))
                leg.answers.append(((kind, step), answer))
            now = done
        step += 1
    leg.elapsed = now - started
